"""Activity-based dynamic power: P = f * C * Vdd * Vswing per module.

Each module has an effective switched capacitance. A module burns its
full-rate power in every cycle its clock enable is high and nothing
otherwise, so average power scales with duty. The control path (state
machine, decoder, clock gates themselves) is never gated and always
carries duty 1.

Per-module capacitances are not measurable from outside, so they come
from `calibrate`: a reference activity trace plus target gated/ungated
totals determine the overall capacitance and its split between the
always-on control path and the gated modules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .control import GATED_MODULES

CONTROL_NODE = "control"
POWER_NODES = GATED_MODULES + (CONTROL_NODE,)

DEFAULT_VDD = 2.4
DEFAULT_VSWING = 2.4
DEFAULT_UNGATED_MW = 273.0
DEFAULT_GATED_MW = 182.0
DEFAULT_MW_PER_MHZ = 3.62
# The frequency at which an ungated 3.62 mW/MHz part dissipates 273 mW.
DEFAULT_F_HZ = DEFAULT_UNGATED_MW / DEFAULT_MW_PER_MHZ * 1e6


class EmptyTraceError(Exception):
    """Power estimation needs at least one recorded cycle."""


class InfeasibleTargetsError(Exception):
    """No non-negative capacitance split reproduces the target totals."""


class ActivityTrace:
    """Per-module enabled-cycle counts accumulated over a run."""

    __slots__ = ("total_cycles", "_enabled")

    def __init__(self):
        self.total_cycles = 0
        self._enabled = dict.fromkeys(GATED_MODULES, 0)

    def add(self, enables, cycles: int = 1) -> None:
        """Record `cycles` cycles that all had this enable set."""
        self.total_cycles += cycles
        for module in enables:
            self._enabled[module] += cycles

    @classmethod
    def from_records(cls, records) -> "ActivityTrace":
        """Build from trace rows carrying an `enables` attribute."""
        trace = cls()
        for record in records:
            trace.add(record.enables)
        return trace

    def enabled_cycles(self, module: str) -> int:
        return self._enabled[module]

    def duty(self, module: str) -> float:
        if self.total_cycles == 0:
            raise EmptyTraceError("no cycles recorded")
        return self._enabled[module] / self.total_cycles

    def duties(self) -> dict[str, float]:
        return {m: self.duty(m) for m in GATED_MODULES}


@dataclass
class PowerConfig:
    """Electrical operating point plus the capacitance table (farads)."""

    vdd: float = DEFAULT_VDD
    vswing: float = DEFAULT_VSWING
    f_hz: float = DEFAULT_F_HZ
    cap: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.vdd <= 0 or self.vswing <= 0 or self.f_hz <= 0:
            raise ValueError("vdd, vswing, and f must be positive")
        if self.vswing > self.vdd:
            raise ValueError("swing cannot exceed the supply")
        if set(self.cap) != set(POWER_NODES):
            missing = set(POWER_NODES) - set(self.cap)
            extra = set(self.cap) - set(POWER_NODES)
            raise ValueError(
                f"capacitance table mismatch: missing {sorted(missing)}, "
                f"unknown {sorted(extra)}")
        for node, c in self.cap.items():
            if c < 0:
                raise ValueError(f"negative capacitance for {node}")

    def replace_frequency(self, f_hz: float) -> "PowerConfig":
        return PowerConfig(vdd=self.vdd, vswing=self.vswing, f_hz=f_hz,
                           cap=dict(self.cap))


@dataclass
class PowerReport:
    """Gated and ungated totals plus the per-module breakdown (mW)."""

    per_module_mw: dict[str, float]
    per_module_ungated_mw: dict[str, float]
    duty: dict[str, float]
    total_gated_mw: float
    total_ungated_mw: float
    savings_percent: float
    mw_per_mhz_ungated: float
    f_hz: float


def power_per_mhz(config: PowerConfig) -> float:
    """Ungated dissipation slope, mW per MHz; independent of f."""
    energy_per_cycle = sum(config.cap.values()) * config.vdd * config.vswing
    return energy_per_cycle * 1e9


def estimate(trace: ActivityTrace, config: PowerConfig) -> PowerReport:
    """Fold a trace into per-module and total power figures."""
    if trace.total_cycles == 0:
        raise EmptyTraceError("no cycles recorded")
    scale_mw = config.f_hz * config.vdd * config.vswing * 1e3
    duty = trace.duties()
    duty[CONTROL_NODE] = 1.0
    ungated = {node: scale_mw * config.cap[node] for node in POWER_NODES}
    gated = {node: ungated[node] * duty[node] for node in POWER_NODES}
    total_gated = sum(gated.values())
    total_ungated = sum(ungated.values())
    return PowerReport(
        per_module_mw=gated,
        per_module_ungated_mw=ungated,
        duty=duty,
        total_gated_mw=total_gated,
        total_ungated_mw=total_ungated,
        savings_percent=100.0 * (1.0 - total_gated / total_ungated),
        mw_per_mhz_ungated=power_per_mhz(config),
        f_hz=config.f_hz,
    )


def calibrate(reference_trace: ActivityTrace,
              ungated_mw: float = DEFAULT_UNGATED_MW,
              gated_mw: float = DEFAULT_GATED_MW,
              f_hz: float = DEFAULT_F_HZ,
              vdd: float = DEFAULT_VDD,
              vswing: float = DEFAULT_VSWING) -> PowerConfig:
    """Solve the capacitance table from two measured totals.

    The ungated target fixes the total capacitance. The gated target
    fixes how much of it sits in the always-on control path versus the
    gated modules: with alpha the control fraction and D the mean duty
    of the gated share, gated/ungated = alpha + (1 - alpha) * D. The
    gated share is split equally across the eight modules (nothing in
    the activity model distinguishes their sizes).
    """
    if reference_trace.total_cycles == 0:
        raise EmptyTraceError("no cycles recorded")
    if ungated_mw <= 0 or gated_mw <= 0:
        raise InfeasibleTargetsError("targets must be positive")
    if gated_mw > ungated_mw:
        raise InfeasibleTargetsError(
            f"gated target {gated_mw} exceeds ungated target {ungated_mw}")

    duties = reference_trace.duties()
    mean_duty = sum(duties.values()) / len(GATED_MODULES)
    ratio = gated_mw / ungated_mw
    if mean_duty >= 1.0:
        # Fully active trace: gating changes nothing, any split works.
        if abs(ratio - 1.0) > 1e-12:
            raise InfeasibleTargetsError(
                "trace never gates anything but targets differ")
        alpha = 0.5
    else:
        alpha = (ratio - mean_duty) / (1.0 - mean_duty)
    if not -1e-12 <= alpha <= 1.0 + 1e-12:
        raise InfeasibleTargetsError(
            f"duty profile (mean {mean_duty:.4f}) cannot reach "
            f"gated/ungated = {ratio:.4f} with non-negative capacitances")
    alpha = min(max(alpha, 0.0), 1.0)

    total_cap = (ungated_mw / 1e3) / (f_hz * vdd * vswing)
    module_cap = (1.0 - alpha) * total_cap / len(GATED_MODULES)
    cap = dict.fromkeys(GATED_MODULES, module_cap)
    cap[CONTROL_NODE] = alpha * total_cap
    return PowerConfig(vdd=vdd, vswing=vswing, f_hz=f_hz, cap=cap)
