"""Oscillator control-word model."""

import pytest

from mcusim.clocking import (
    CONTROL_WORDS,
    MAX_FREQ_HZ,
    MIN_FREQ_HZ,
    cycle_time_of,
    frequency_of,
)


def test_endpoints():
    assert frequency_of(0) == pytest.approx(134e6, rel=1e-3)
    assert frequency_of(15) == pytest.approx(44e6, rel=1e-3)


def test_strictly_monotone_decreasing():
    freqs = [frequency_of(w) for w in range(CONTROL_WORDS)]
    assert all(a > b for a, b in zip(freqs, freqs[1:]))


def test_midpoint_value():
    # T(7) = (1/134 MHz) + 7/15 of the span up to 1/44 MHz = 14.586 ns.
    assert cycle_time_of(7) == pytest.approx(14.586e-9, rel=1e-4)
    assert frequency_of(7) == pytest.approx(68.56e6, rel=1e-3)


def test_all_settings_inside_the_band():
    slack = 1e-6  # reciprocal round-off at the exact endpoints
    for w in range(CONTROL_WORDS):
        assert MIN_FREQ_HZ - slack <= frequency_of(w) <= MAX_FREQ_HZ + slack


def test_frequency_and_cycle_time_are_reciprocal():
    for w in range(CONTROL_WORDS):
        assert frequency_of(w) * cycle_time_of(w) == pytest.approx(
            1.0, rel=1e-12)


def test_cycle_time_steps_are_uniform():
    steps = [cycle_time_of(w + 1) - cycle_time_of(w) for w in range(15)]
    for step in steps:
        assert step == pytest.approx(steps[0], rel=1e-9)


@pytest.mark.parametrize("bad", [-1, 16, 100])
def test_out_of_range_control_words_rejected(bad):
    with pytest.raises(ValueError):
        frequency_of(bad)

