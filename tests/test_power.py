"""Activity-based power estimation and calibration."""

import importlib.resources
import importlib.util
import pathlib
import random

import pytest

from mcusim.control import GATED_MODULES
from mcusim.power import (
    CONTROL_NODE,
    DEFAULT_F_HZ,
    ActivityTrace,
    EmptyTraceError,
    InfeasibleTargetsError,
    NoCapacitanceError,
    PowerConfig,
    PowerRangeError,
    calibrate,
    estimate,
    power_per_mhz,
)


def trace_from(vectors) -> ActivityTrace:
    trace = ActivityTrace()
    for enables in vectors:
        trace.add(enables)
    return trace


def mixed_trace() -> ActivityTrace:
    # Fetch-style and execute-style rows plus some dead cycles.
    return trace_from(
        [{"rom"}, {"regfile", "alu"}] * 30
        + [{"rom"}, {"regfile", "ram"}] * 10
        + [{"rom"}, set()] * 10
    )


def flat_config(cap=1e-12, **overrides) -> PowerConfig:
    caps = dict.fromkeys(GATED_MODULES, cap)
    caps[CONTROL_NODE] = cap
    return PowerConfig(cap=caps, **overrides)


def test_estimate_rejects_an_all_zero_capacitance_table():
    with pytest.raises(NoCapacitanceError):
        estimate(mixed_trace(), flat_config(cap=0.0))


@pytest.mark.parametrize("overrides", [
    {"f_hz": 1e308}, {"cap": 1e300}, {"vdd": 1e200, "vswing": 1e200},
    {"vdd": 1e-200, "vswing": 1e-200},
])
def test_estimate_rejects_power_out_of_float_range(overrides):
    with pytest.raises(PowerRangeError, match="not a positive finite"):
        estimate(mixed_trace(), flat_config(**overrides))


def test_duty_accounting():
    trace = trace_from([{"rom"}, {"regfile", "alu"}, {"rom"}, set()])
    assert trace.total_cycles == 4
    assert trace.duty("rom") == 0.5
    assert trace.duty("alu") == 0.25
    assert trace.duty("uart") == 0.0


def test_estimate_rejects_empty_trace():
    with pytest.raises(EmptyTraceError):
        estimate(ActivityTrace(), flat_config())
    with pytest.raises(EmptyTraceError):
        ActivityTrace().duty("rom")


def test_full_duty_trace_matches_ungated_total():
    trace = trace_from([set(GATED_MODULES)] * 10)
    report = estimate(trace, flat_config())
    assert report.total_gated_mw == pytest.approx(
        report.total_ungated_mw, rel=1e-12)
    assert report.savings_percent == pytest.approx(0.0, abs=1e-9)


def test_totals_are_the_sum_of_module_entries():
    report = estimate(mixed_trace(), flat_config())
    assert report.total_gated_mw == pytest.approx(
        sum(report.per_module_mw.values()), rel=1e-9)
    assert report.total_ungated_mw == pytest.approx(
        sum(report.per_module_ungated_mw.values()), rel=1e-9)


def test_module_power_scales_with_duty():
    trace = trace_from([{"rom"}] * 3 + [set()] * 1)
    report = estimate(trace, flat_config())
    assert report.per_module_mw["rom"] == pytest.approx(
        0.75 * report.per_module_ungated_mw["rom"], rel=1e-12)
    assert report.per_module_mw["alu"] == 0.0
    assert report.per_module_mw[CONTROL_NODE] == pytest.approx(
        report.per_module_ungated_mw[CONTROL_NODE], rel=1e-12)


def test_estimate_is_linear_in_frequency():
    trace = mixed_trace()
    config = flat_config()
    base = estimate(trace, config)
    doubled = estimate(trace, PowerConfig(vdd=config.vdd,
                                          vswing=config.vswing,
                                          f_hz=config.f_hz * 2,
                                          cap=dict(config.cap)))
    for node in base.per_module_mw:
        assert doubled.per_module_mw[node] == 2 * base.per_module_mw[node]
    assert doubled.total_ungated_mw == 2 * base.total_ungated_mw


def test_gating_never_increases_power():
    rng = random.Random(0x9090)
    for _ in range(20):
        trace = ActivityTrace()
        for _ in range(rng.randrange(1, 50)):
            trace.add({m for m in GATED_MODULES if rng.random() < 0.4})
        report = estimate(trace, flat_config())
        assert report.total_gated_mw <= report.total_ungated_mw + 1e-12


def test_calibration_reproduces_both_targets():
    trace = mixed_trace()
    config = calibrate(trace, ungated_mw=273.0, gated_mw=182.0)
    report = estimate(trace, config)
    assert report.total_ungated_mw == pytest.approx(273.0, rel=1e-9)
    assert report.total_gated_mw == pytest.approx(182.0, rel=1e-9)
    assert report.savings_percent == pytest.approx(33.33, abs=0.01)


def test_calibration_with_perturbed_targets():
    trace = mixed_trace()
    config = calibrate(trace, ungated_mw=273.0, gated_mw=200.0)
    report = estimate(trace, config)
    assert report.total_ungated_mw == pytest.approx(273.0, rel=1e-3)
    assert report.total_gated_mw == pytest.approx(200.0, rel=1e-3)


def test_calibration_equal_targets_on_all_active_trace():
    trace = trace_from([set(GATED_MODULES)] * 5)
    config = calibrate(trace, ungated_mw=100.0, gated_mw=100.0)
    report = estimate(trace, config)
    assert report.total_gated_mw == pytest.approx(100.0, rel=1e-9)
    assert report.total_ungated_mw == pytest.approx(100.0, rel=1e-9)


def test_calibration_infeasible_cases():
    with pytest.raises(InfeasibleTargetsError):
        calibrate(mixed_trace(), ungated_mw=100.0, gated_mw=120.0)
    # All-active trace cannot show a gating saving at all.
    with pytest.raises(InfeasibleTargetsError):
        calibrate(trace_from([set(GATED_MODULES)] * 5),
                  ungated_mw=273.0, gated_mw=182.0)
    # Mean duty above the target ratio forces negative control cap.
    busy = trace_from([set(GATED_MODULES)] * 9 + [set()])
    with pytest.raises(InfeasibleTargetsError):
        calibrate(busy, ungated_mw=100.0, gated_mw=50.0)
    with pytest.raises(InfeasibleTargetsError,
                       match="^targets must be positive$"):
        calibrate(mixed_trace(), ungated_mw=0)
    with pytest.raises(EmptyTraceError):
        calibrate(ActivityTrace())


def test_power_per_mhz_matches_targets_over_frequency():
    # Calibrating 273 mW at 273/3.62 MHz pins the slope at 3.62 mW/MHz.
    config = calibrate(mixed_trace())
    assert power_per_mhz(config) == pytest.approx(3.62, abs=1e-9)
    assert DEFAULT_F_HZ == pytest.approx(273.0 / 3.62 * 1e6, rel=1e-12)


def test_power_per_mhz_is_frequency_independent():
    config = calibrate(mixed_trace())
    for f in (44e6, 75e6, 134e6):
        moved = PowerConfig(vdd=config.vdd, vswing=config.vswing, f_hz=f,
                            cap=dict(config.cap))
        assert power_per_mhz(moved) == power_per_mhz(config)


def test_power_per_mhz_product_invariance():
    caps = dict.fromkeys(GATED_MODULES, 1e-12)
    caps[CONTROL_NODE] = 1e-12
    a = PowerConfig(vdd=2.4, vswing=2.4, cap=caps)
    halved = {k: v / 2 for k, v in caps.items()}
    b = PowerConfig(vdd=4.8, vswing=2.4, cap=halved)
    assert power_per_mhz(a) == pytest.approx(power_per_mhz(b), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        flat_config(vdd=-1.0)
    with pytest.raises(ValueError):
        flat_config(vdd=1.0, vswing=2.0)  # swing above supply
    with pytest.raises(ValueError):
        PowerConfig(cap={"alu": 1e-12})  # table incomplete
    with pytest.raises(ValueError):
        flat_config(cap=-1e-12)


def test_calibration_script_renders_the_packaged_defaults():
    # A drift in the reference workload's activity would move the
    # 273/182 mW anchors' capacitance split; rendering, not writing, the
    # file keeps the package untouched.
    path = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
            / "calibrate_defaults.py")
    spec = importlib.util.spec_from_file_location("calibrate_defaults", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    packaged = (importlib.resources.files("mcusim")
                .joinpath("data", "default_power.cfg").read_text())
    assert script.render() == packaged
