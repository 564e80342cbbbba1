"""Ports, UART timing and FIFO bounds, 7-segment driver."""

import pathlib
import random

import pytest

from mcusim.peripherals import (
    FIFO_DEPTH,
    Peripherals,
    PortState,
    SevenSeg,
    TxOverflowError,
    Uart,
    bcd_to_7seg,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "sevenseg_golden.txt"


def test_segment_patterns_match_the_golden_table():
    table = {}
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        digit, bits = line.split()
        table[int(digit)] = int(bits, 2)
    assert len(table) == 16
    for digit, pattern in table.items():
        assert bcd_to_7seg(digit) == pattern, digit


def test_segment_spot_values():
    assert bcd_to_7seg(8) == 0b1111111   # every segment lit
    assert bcd_to_7seg(0) == 0b0111111
    assert bcd_to_7seg(12) == 0          # non-BCD input blanks
    assert bcd_to_7seg(0x18) == bcd_to_7seg(8)  # only low 4 bits matter


def test_sevenseg_show():
    seg = SevenSeg()
    seg.show(5)
    assert seg.segments == 0b1101101
    assert seg.last_digit == 5
    seg.show(0xFF)
    assert seg.segments == 0
    assert seg.last_digit == 0xF


def test_port0_latches_and_masks():
    ports = PortState()
    ports.write_port0(0xAA)
    assert ports.port0_latch == 0xAA
    ports.write_port0(0x1FF)
    assert ports.port0_latch == 0xFF


def test_port1_is_level_sensitive():
    ports = PortState()
    ports.inject_port1(0x5C)
    assert ports.read_port1() == 0x5C
    assert ports.read_port1() == 0x5C  # reads do not consume
    ports.inject_port1(0x01)
    assert ports.read_port1() == 0x01


def test_uart_divisor_timing():
    uart = Uart(baud_divisor=10)
    uart.send(0x41)
    assert uart.tick(9) == (9, [])
    assert uart.tick(0) == (0, [])
    assert uart.tick(1) == (1, [(0, 0x41)])
    assert not uart.busy
    assert uart.tick(5) == (0, [])


def test_uart_tick_in_one_gulp():
    uart = Uart(baud_divisor=10)
    uart.send(0x41)
    assert uart.tick(10) == (10, [(9, 0x41)])
    uart.send(0x42)
    # Busy for the byte's ten cycles only; the offset is from the first.
    assert uart.tick(25) == (10, [(9, 0x42)])


def test_uart_drains_multiple_bytes():
    uart = Uart(baud_divisor=4)
    for b in (1, 2, 3):
        uart.send(b)
    assert uart.tick(8) == (8, [(3, 1), (7, 2)])
    assert uart.tick(3) == (3, [])
    assert uart.tick(1) == (1, [(0, 3)])


def test_uart_preserves_byte_order():
    rng = random.Random(0xABCD)
    uart = Uart(baud_divisor=3)
    sent = []
    received = []
    for _ in range(200):
        if rng.random() < 0.5 and len(uart.tx_queue) < FIFO_DEPTH:
            byte = rng.randrange(256)
            uart.send(byte)
            sent.append(byte)
        received.extend(byte for _, byte in uart.tick(rng.randrange(6))[1])
    received.extend(byte for _, byte in uart.tick(3 * FIFO_DEPTH)[1])
    assert received == sent


def test_uart_tx_overflow_at_bound():
    uart = Uart(baud_divisor=10)
    for i in range(FIFO_DEPTH):
        uart.send(i)
    with pytest.raises(TxOverflowError):
        uart.send(0)


def test_uart_busy_tracks_pending_bytes():
    uart = Uart(baud_divisor=5)
    assert not uart.busy
    uart.send(7)
    assert uart.busy
    uart.tick(4)
    assert uart.busy
    uart.tick(1)
    assert not uart.busy


def test_uart_rejects_bad_arguments():
    with pytest.raises(ValueError):
        Uart(baud_divisor=0)
    with pytest.raises(ValueError):
        Uart().tick(-1)


def test_peripherals_reset_keeps_external_input_level():
    periph = Peripherals()
    periph.ports.write_port0(0x11)
    periph.ports.inject_port1(0x22)
    periph.uart.send(0x33)
    periph.sevenseg.show(4)
    periph.reset()
    assert periph.ports.port0_latch == 0
    assert periph.ports.read_port1() == 0x22  # host-driven level survives
    assert not periph.uart.busy
    assert periph.sevenseg.segments == 0
