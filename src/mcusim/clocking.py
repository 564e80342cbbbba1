"""Programmable oscillator: 4-bit control word to clock frequency.

The oscillator spans 134 MHz (control word 0) down to 44 MHz (control
word 15). Cycle time, not frequency, is linear in the control word: a
larger word inserts more delay stages, each adding the same increment.
"""

from __future__ import annotations

CONTROL_WORDS = 16
MAX_FREQ_HZ = 134e6   # control word 0
MIN_FREQ_HZ = 44e6    # control word 15

_T0 = 1.0 / MAX_FREQ_HZ
_T15 = 1.0 / MIN_FREQ_HZ
_STEP = (_T15 - _T0) / (CONTROL_WORDS - 1)


def _check_word(control_word: int) -> None:
    if not 0 <= control_word < CONTROL_WORDS:
        raise ValueError(
            f"oscillator control word must be 0..15, got {control_word}")


def cycle_time_of(control_word: int) -> float:
    """Clock period in seconds for a control word."""
    _check_word(control_word)
    return _T0 + control_word * _STEP


def frequency_of(control_word: int) -> float:
    """Clock frequency in Hz for a control word."""
    return 1.0 / cycle_time_of(control_word)

